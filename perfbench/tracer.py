"""Span timing of hyperajscc calls, installed from outside the program.

`Tracer.install()` replaces public functions and methods of the hyperajscc
modules with timing wrappers; `Tracer.remove()` puts every original back.
Nothing under src/ knows about it.  A function is patched at every module
binding that holds it (``from .channel import power_normalize`` in
models.py is a second binding of the same object), so callers see the
wrapper however they imported the name.

Each wrapper records one span: inclusive time under the span's name, and
self time (inclusive minus child spans) under the span's bucket.  Buckets
partition the traced time: over any interval, the bucket self times add up
to the time spent inside outermost spans.  A tensor op that returns a new
graph node also gets its ``_backward_fn`` closure wrapped, so the backward
pass is split per op and ``Tensor.backward`` keeps only its own tape
traversal as self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from hyperajscc import channel, layers, metrics, models, tensor, training
from hyperajscc.layers import Conv2dLayer, HyperLayer
from hyperajscc.tensor import Tensor

_clock = time.perf_counter

# tensor-module primitive ops -> bucket; "activation" is the dispatcher and
# is not counted as an op of its own.
_TENSOR_OPS = {
    "conv2d": "tensor.conv2d",
    "linear": "tensor.linear",
    "upsample_zero": "tensor.upsample_zero",
    "relu": "tensor.activation",
    "tanh": "tensor.activation",
    "sigmoid": "tensor.activation",
    "softmax": "tensor.activation",
    "matmul": "tensor.other_ops",
    "add": "tensor.other_ops",
    "sub": "tensor.other_ops",
    "mul": "tensor.other_ops",
    "scale": "tensor.other_ops",
    "scale_rowwise": "tensor.other_ops",
    "mul_rowvec": "tensor.other_ops",
    "scale_channels": "tensor.other_ops",
    "affine_outer": "tensor.other_ops",
    "tsum": "tensor.other_ops",
    "tmean": "tensor.other_ops",
    "reshape": "tensor.other_ops",
}
# ops that HyperLayer.forward uses to apply the scale vector s to its output
_SCALE_APPLY = {"mul", "mul_rowvec", "scale_channels"}
HYPER_SCALE = "layers.hyper_scale"
_HYPER_LAYER = "layers.hyper_layer"

# (module, attribute, span name, bucket) for spans that are not tensor ops
_SPANS = [
    (models, "forward_pipeline", "models.forward_pipeline", "models.glue"),
    (models, "encode", "models.encode", "models.glue"),
    (models, "decode", "models.decode", "models.glue"),
    (channel, "power_normalize", "channel.power_normalize", "channel.power_normalize"),
    (channel, "awgn_transmit", "channel.awgn_transmit", "channel.awgn_transmit"),
    (training, "train_step", "training.train_step", "training.glue"),
    (training, "mse_loss", "training.mse_loss", "training.glue"),
    (metrics, "snr_sweep", "metrics.snr_sweep", "metrics.glue"),
    (metrics, "_eval_once", "metrics.sweep_point", "metrics.glue"),
]
_METHODS = [
    (Tensor, "backward", "tensor.backward", "tensor.tape"),
    (training.Adam, "step", "training.adam_step", "training.adam_step"),
    (layers.HyperScale, "vector", HYPER_SCALE, HYPER_SCALE),
    (HyperLayer, "forward", _HYPER_LAYER, "models.glue"),
]
BUCKETS = (
    "tensor.conv2d", "tensor.linear", "tensor.upsample_zero", "tensor.activation",
    "tensor.other_ops", "tensor.tape", HYPER_SCALE, "models.glue",
    "channel.power_normalize", "channel.awgn_transmit", "training.glue",
    "training.adam_step", "metrics.glue",
)


def conv_layers(model) -> dict[int, tuple[str, int]]:
    """id(kernel tensor) -> (layer name such as 'enc.1', upsample factor)."""
    out = {}
    for half, stack in (("enc", model.encoder), ("dec", model.decoder)):
        for i, layer in enumerate(stack):
            if isinstance(layer, HyperLayer) and isinstance(layer.base, Conv2dLayer):
                out[id(layer.base.c0)] = (f"{half}.{i}", layer.base.upsample)
    return out


def _real_taps(size: int, kernel: int, stride: int, padding: int, upsample: int, out: int) -> int:
    """Kernel taps along one axis that land on a real input value.

    The conv input is `size` long after zero-insertion upsampling; real
    values sit at multiples of `upsample`.  Taps on padding or on inserted
    zeros are not counted.
    """
    real = np.zeros(size + 2 * padding, dtype=np.int64)
    real[padding : padding + size : upsample] = 1
    starts = np.arange(out) * stride
    return int(real[starts[:, None] + np.arange(kernel)[None, :]].sum())


class _TimedClosure:
    """Replacement for a node's _backward_fn that times the original."""

    __slots__ = ("tracer", "name", "bucket", "fn", "layer")

    def __init__(self, tracer, name, bucket, fn, layer):
        self.tracer, self.name, self.bucket, self.fn, self.layer = tracer, name, bucket, fn, layer

    def __call__(self, g):
        tr = self.tracer
        frame = tr._open(self.name)
        t0 = _clock()
        try:
            return self.fn(g)
        finally:
            dt = _clock() - t0
            tr._close(frame, self.name, self.bucket, dt)
            if self.layer is not None:
                tr.total[self.layer] += dt


class Tracer:
    """Install timing wrappers; accumulate span totals until `reset()`."""

    def __init__(self, model=None):
        self.conv_of = conv_layers(model) if model is not None else {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._tap_cache: dict[tuple, int] = {}
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_s = defaultdict(float)  # bucket -> self seconds
        self.counts = defaultdict(int)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, bucket, dt):
        stack = self._stack
        stack.pop()
        self.total[name] += dt
        self.self_s[bucket] += dt - frame[1]
        if stack:
            stack[-1][1] += dt

    def _span(self, fn, name, bucket):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, bucket, _clock() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, fn, op, bucket):
        """Wrapper for a tensor primitive op: span, op count, timed closure."""
        name = "tensor." + op
        is_conv = op == "conv2d"

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            b = bucket
            if parent == HYPER_SCALE or (parent == _HYPER_LAYER and op in _SCALE_APPLY):
                b = HYPER_SCALE
                self.counts["layers.hyper_scale.calls"] += 1
            frame = self._open(name)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._close(frame, name, b, dt)
            self.counts["tensor.ops.calls"] += 1
            layer = self._conv_done(args, kwargs, out, dt) if is_conv else None
            self._time_closure(out, name + ".bwd", b, layer)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _time_closure(self, out, name, bucket, layer=None):
        node = out.values if isinstance(out, channel.ChannelSymbols) else out
        fn = getattr(node, "_backward_fn", None)
        if fn is None or type(fn) is _TimedClosure:
            return  # no graph, or an input passed through unchanged
        node._backward_fn = _TimedClosure(self, name, bucket, fn, layer and layer + ".bwd")
        self.counts["tensor.tape.nodes"] += 1

    def _conv_done(self, args, kwargs, out, dt):
        """Per-layer time and multiply-accumulate counts of one conv2d call."""
        x, k = args[0], args[1]
        stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
        padding = args[4] if len(args) > 4 else kwargs.get("padding", 0)
        B, cin, H, W = x.shape
        cout, _, kh, kw = k.shape
        ho, wo = out.shape[2], out.shape[3]
        layer, up = self.conv_of.get(id(k), ("other", 1))
        key = (H, W, kh, kw, stride, padding, up)
        taps = self._tap_cache.get(key)
        if taps is None:
            taps = _real_taps(H, kh, stride, padding, up, ho) * _real_taps(W, kw, stride, padding, up, wo)
            self._tap_cache[key] = taps
        self.counts["tensor.conv2d.macs"] += B * cout * cin * ho * wo * kh * kw
        self.counts["tensor.conv2d.useful_macs"] += B * cout * cin * taps
        name = "tensor.conv2d." + layer
        self.total[name] += dt
        return name

    # -- install / remove -------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, fn, replacement):
        """Rebind `fn` in every hyperajscc module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperajscc" or mod_name.startswith("hyperajscc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for op, bucket in _TENSOR_OPS.items():
                fn = getattr(tensor, op)
                self._patch_everywhere(fn, self._op(fn, op, bucket))
            fn = tensor.activation
            self._patch_everywhere(fn, self._span(fn, "tensor.activation", "tensor.activation"))
            for mod, attr, name, bucket in _SPANS:
                fn = getattr(mod, attr)
                wrapped = self._span(fn, name, bucket)
                if mod is channel:
                    wrapped = self._with_closure(wrapped, name, bucket)
                self._patch_everywhere(fn, wrapped)
            for cls, attr, name, bucket in _METHODS:
                self._patch(cls, attr, self._span(cls.__dict__[attr], name, bucket))
        except BaseException:
            self.remove()
            raise
        return self

    def _with_closure(self, wrapped, name, bucket):
        def wrapper(*args, **kwargs):
            out = wrapped(*args, **kwargs)
            self._time_closure(out, name + ".bwd", bucket)
            return out

        wrapper.__wrapped__ = wrapped.__wrapped__
        return wrapper

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False
