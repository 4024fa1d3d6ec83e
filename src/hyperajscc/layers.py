"""Neural layers with channel-conditioned element-wise scaling.

This module holds only the layer classes; models.build_layer builds each
layer from its LayerSpec (He-uniform weights, zero biases, nu=0, c=1).
Layers hold parameters and check no shapes: ModelConfig.validate checks a
config, and each op named below checks its arguments on every call.

Each adaptive layer is a plain base layer (weights W0/b0 or kernels C0/b0)
plus a per-sample, per-output-channel scale s[b] = omega_t[b] * nu + c,
applied to the pre-activation output (a FiLM-style gain without shift).
A layer is one call of its op, tensor.linear, conv2d or upconv2d, and one
graph node: the op is handed the activation and, if the layer has a
scale, (omega_t, nu, c), and applies both to its own result.  A layer
without a scale is the same call with none.  softmax is a dense layer's
activation only: it normalizes over the channels, which for NCHW data
would be over W, so the conv ops and ModelConfig.validate refuse it.
Conv activations are NCHW tensors over batch-last memory: conv2d and
upconv2d work on [C, H, W, B] arrays and hand on NCHW views of them, so
the next conv reads its input without a transposing copy.
Dense activations are plain [B, C] rows.
For convolutions, scaling output channels is mathematically identical to
row-scaling the kernels and commutes with the convolution.  With one
omega_t per sample the output is the side that gets scaled, because s
differs per sample and the kernels are shared by the whole batch; with
one omega_t for the batch, s is one vector, and inside no_tape() the op
scales its kernel and bias instead (tensor._fold).  On the tape a 0-d
omega_t runs as one per sample.  A deconv is a transposed conv computed
over the real pixels of its input (tensor.upconv2d); no zero-inserted
upsampled input is built.

omega_t is the channel SNR mapped affinely into [-1, 1] over the fixed
0..20 dB range (models.OMEGA_LO_DB..OMEGA_HI_DB), and saturated at 1 above
it; the model maps it once per pass (models.forward_pipeline), so
layers receive omega_t, [B] or 0-d for one SNR, and know nothing of dB.
With nu = 0 and c = 1 every layer is bit-identical to its unscaled base.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class HyperScale:
    """Per-output-channel affine condition scale: s = omega_t*nu + c."""

    def __init__(self, nu: Tensor, c: Tensor):
        self.nu = nu
        self.c = c

    @classmethod
    def identity(cls, n_out: int) -> "HyperScale":
        """nu=0, c=1: starts as an exact no-op for every omega."""
        nu = Tensor(np.zeros(n_out), requires_grad=True)
        c = Tensor(np.ones(n_out), requires_grad=True)
        return cls(nu, c)

    def vector(self, omega_t) -> Tensor:
        """Per-sample scales [B,D] for per-sample mapped conditions omega_t [B].

        HyperLayer.forward does not call it: its op builds the same s from
        (omega_t, nu, c) inside its own graph node.
        """
        return T.affine_outer(omega_t, self.nu, self.c)


class DenseLayer:
    def __init__(self, w0: Tensor, b0: Tensor, act: str = "linear"):
        self.w0 = w0
        self.b0 = b0
        self.act = act

    def named_params(self):
        return [("W0", self.w0), ("b0", self.b0)]


class Conv2dLayer:
    """Convolution, or with upsample > 1 a deconv.

    A deconv is defined as zero-insertion upsampling followed by a stride-1
    convolution, and computed as a transposed conv over the real pixels
    (tensor.upconv2d), so it takes no stride of its own (ModelConfig.validate refuses one).
    """

    def __init__(
        self,
        c0: Tensor,
        b0: Tensor,
        stride: int = 1,
        padding: int = 0,
        upsample: int = 1,
        act: str = "linear",
    ):
        self.c0 = c0
        self.b0 = b0
        self.stride = stride
        self.padding = padding
        self.upsample = upsample
        self.act = act

    def named_params(self):
        return [("C0", self.c0), ("b0", self.b0)]


class HyperLayer:
    """Base layer plus optional condition scale; scale absent = plain layer."""

    def __init__(self, base: DenseLayer | Conv2dLayer, scale: HyperScale | None = None):
        self.base = base
        self.scale = scale

    def forward(self, f: Tensor, omega_t) -> Tensor:
        """omega_t is the mapped condition: [B], one per sample, or 0-d, one for the batch."""
        base = self.base
        scale = None if self.scale is None else (omega_t, self.scale.nu, self.scale.c)
        if isinstance(base, DenseLayer):
            return T.linear(f, base.w0, base.b0, act=base.act, scale=scale)
        if base.upsample > 1:
            return T.upconv2d(f, base.c0, base.b0, base.upsample, base.padding, act=base.act, scale=scale)
        return T.conv2d(f, base.c0, base.b0, base.stride, base.padding, act=base.act, scale=scale)

    def named_params(self):
        out = list(self.base.named_params())
        if self.scale is not None:
            out += [("nu", self.scale.nu), ("c", self.scale.c)]
        return out


class ResNetBlock:
    """out = act(conv2(act(conv1(f))) + skip(f)), scaling inside each conv.

    skip is a 1x1 projection when channel counts differ, identity otherwise.
    """

    def __init__(self, conv1: HyperLayer, conv2: HyperLayer, skip: HyperLayer | None, act: str):
        self.conv1 = conv1
        self.conv2 = conv2
        self.skip = skip
        self.act = act

    def forward(self, f: Tensor, omega_t) -> Tensor:
        h = self.conv1.forward(f, omega_t)
        h = self.conv2.forward(h, omega_t)
        sk = self.skip.forward(f, omega_t) if self.skip is not None else f
        return T.activation(self.act, T.add(h, sk))

    def named_params(self):
        out = [(f"conv1.{n}", t) for n, t in self.conv1.named_params()]
        out += [(f"conv2.{n}", t) for n, t in self.conv2.named_params()]
        if self.skip is not None:
            out += [(f"skip.{n}", t) for n, t in self.skip.named_params()]
        return out


class Reshape:
    """Structural layer: [B, ...] -> [B, *shape]; flatten is Reshape((C*H*W,))."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)

    def forward(self, f: Tensor, omega_t) -> Tensor:
        return T.reshape(f, f.data.shape[:1] + self.shape)

    def named_params(self):
        return []

