"""Dense float64 arrays with reverse-mode automatic differentiation.

The computation graph is rebuilt on every forward pass (define-by-run):
each Tensor produced by an op keeps references to its parent tensors and a
closure that maps the output gradient to parent gradients.  Calling
``backward()`` on a scalar runs one reverse-topological sweep and
accumulates gradients into every reachable tensor with ``requires_grad``.

Inside ``with no_tape():`` ops record no graph: every result is a plain
Tensor, so a forward-only pass (a sweep) frees each intermediate as soon as
the next op has read it.

Everything is float64.  Models here are tiny, so we trade throughput for
tight finite-difference checks.  relu propagates NaN, and its subgradient
at 0 is defined as 0.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError


def _keep_the_heap() -> None:
    """Fix glibc's malloc thresholds, so freed conv scratch stays mapped between passes.

    conv2d and upconv2d allocate scratch arrays of up to a few MB on every
    pass and free them at its end.  With glibc's dynamic thresholds the heap
    is trimmed whenever the free block at its top outgrows twice the largest
    mmapped block freed so far, and the next pass faults the same pages back
    in: tens to hundreds of minor faults per train step or sweep chunk, in
    some runs and not in others, as it depends on where the heap starts.
    The fixed values are the largest the dynamic ones reach.  A C library
    without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: trim only when 64 MiB at its top are free


_keep_the_heap()


class Tensor:
    """n-dimensional float64 array, optionally tracked for autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_track")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple = (),
        backward_fn: Callable | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn = backward_fn
        self._track = requires_grad or bool(parents)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def backward(self) -> None:
        """Reverse-topological gradient sweep from a scalar loss.

        Only op results enter the sort.  A leaf (a tensor with
        ``requires_grad`` and no parents) takes each contribution as soon as
        an op's backward returns it: the first is copied when its ``grad`` is
        None, later ones are added into ``grad`` in place.  So gradients
        accumulate across calls, and into whatever array ``grad`` holds,
        such as the optimizer's view of its flat gradient (see
        training.Adam.zero_grad).
        """
        if self.data.size != 1:
            raise ConfigError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self._parents:  # the loss is itself a leaf
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.ones_like(self.data)
                else:
                    self.grad += 1.0
            return
        # Tensor hashes by identity, so nodes key the set and the dict themselves
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._parents and p not in visited:
                    stack.append((p, False))
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            for parent, pg in node._backward_fn(g):
                if parent._parents:
                    acc = grads.get(parent)
                    grads[parent] = pg if acc is None else acc + pg
                elif parent.requires_grad:
                    if parent.grad is None:
                        parent.grad = pg.copy()
                    else:
                        parent.grad += pg

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_recording = contextvars.ContextVar("tape_recording", default=True)  # False inside no_tape()


@contextlib.contextmanager
def no_tape():
    """Ops inside the block record no graph node, whatever their inputs track."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data, parents: tuple, backward_fn: Callable) -> Tensor:
    """Wrap an op result; drop the graph inside no_tape() or when no parent is tracked."""
    if _recording.get():
        for p in parents:
            if p._track:
                return Tensor(data, parents=parents, backward_fn=backward_fn)
    return Tensor(data)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) != 2:
        raise ConfigError(f"matmul needs 2-d operands, got {sa} and {sb}")
    if sa[1] != sb[0]:
        raise ConfigError(f"matmul inner dims disagree: {sa} vs {sb}")
    out = a.data @ b.data

    def backward(g):
        grads = []
        if a._track:
            grads.append((a, g @ b.data.T))
        if b._track:
            grads.append((b, a.data.T @ g))
        return grads

    return _make(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor, act: str = "linear", scale=None) -> Tensor:
    """act((x @ w.T + b) * s) for x [B,Din], w [Dout,Din], b [Dout]; s is 1 or the scale's (see _fold, _head)."""
    sx, sw = x.data.shape, w.data.shape
    if len(sx) != 2 or len(sw) != 2 or sx[1] != sw[1]:
        raise ConfigError(f"linear: input {sx} does not match weight {sw}")
    if b.data.shape != (sw[0],):
        raise ConfigError(f"linear: bias {b.data.shape} does not match weight {sw}")
    s, scale_params = _fold("linear", scale, sw[0])
    ws, bs = (w.data, b.data) if s is None else (w.data * s[:, None], b.data * s)
    out, head = _head("linear", x.data @ ws.T + bs, act, scale if s is None else None)

    def backward(g):
        g, grads = head(g)
        if x._track:
            grads.append((x, g @ w.data))
        if w._track:
            grads.append((w, g.T @ x.data))
        if b._track:
            grads.append((b, g.sum(axis=0)))
        return grads

    return _make(out, (x, w, b) + scale_params, backward)


# ---------------------------------------------------------------------------
# elementwise


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ConfigError(f"{op}: shapes differ: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: [(a, g), (b, g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: [(a, g), (b, -g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: [(a, g * b.data), (b, g * a.data)])


def scale(a: Tensor, alpha: float) -> Tensor:
    """Multiply by a python constant (not differentiated w.r.t. alpha)."""
    return _make(a.data * alpha, (a,), lambda g: [(a, g * alpha)])


def scale_rowwise(a: Tensor, v: Tensor) -> Tensor:
    """Multiply slice i along the leading axis of `a` by v[i]."""
    sa, sv = a.data.shape, v.data.shape
    if len(sv) != 1 or sv[0] != sa[0]:
        raise ConfigError(f"scale_rowwise: vector {sv} does not match leading dim of {sa}")
    vr = v.data.reshape(sv + (1,) * (len(sa) - 1))
    out = a.data * vr

    def backward(g):
        grads = []
        if a._track:
            grads.append((a, g * vr))
        if v._track:
            axes = tuple(range(1, a.data.ndim))
            grads.append((v, (g * a.data).sum(axis=axes) if axes else g * a.data))
        return grads

    return _make(out, (a, v), backward)


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of x [B,D] elementwise by v [D]."""
    sx, sv = x.data.shape, v.data.shape
    if len(sx) != 2 or len(sv) != 1 or sx[1] != sv[0]:
        raise ConfigError(f"mul_rowvec: {sx} vs {sv}")
    out = x.data * v.data

    def backward(g):
        grads = []
        if x._track:
            grads.append((x, g * v.data))
        if v._track:
            grads.append((v, (g * x.data).sum(axis=0)))
        return grads

    return _make(out, (x, v), backward)


def scale_channels(x: Tensor, s: Tensor) -> Tensor:
    """Scale channel c of sample b in x [B,C,...] by s[b,c] (FiLM-style gain)."""
    sx, ss = x.data.shape, s.data.shape
    if len(sx) < 2 or ss != sx[:2]:
        raise ConfigError(f"scale_channels: scale {ss} vs batch/channels of {sx}")
    trailing = tuple(range(2, len(sx)))
    sr = s.data.reshape(ss + (1,) * len(trailing))
    out = x.data * sr

    def backward(g):
        grads = []
        if x._track:
            grads.append((x, g * sr))
        if s._track:
            gs = g * x.data
            grads.append((s, gs.sum(axis=trailing) if trailing else gs))
        return grads

    return _make(out, (x, s), backward)


def affine_outer(omega: np.ndarray, nu: Tensor, c: Tensor) -> Tensor:
    """out[b, j] = omega[b] * nu[j] + c[j] for a per-sample condition vector."""
    omega = np.asarray(omega, dtype=np.float64)
    sn = nu.data.shape
    if omega.ndim != 1 or len(sn) != 1 or sn != c.data.shape:
        raise ConfigError(f"affine_outer: omega {omega.shape}, nu {sn}, c {c.data.shape}")
    out = omega[:, None] * nu.data[None, :] + c.data[None, :]

    def backward(g):
        grads = []
        if nu._track:
            grads.append((nu, omega @ g))
        if c._track:
            grads.append((c, g.sum(axis=0)))
        return grads

    return _make(out, (nu, c), backward)


# ---------------------------------------------------------------------------
# activations


def _sigmoid(a, out):
    """0.5 * (1 + tanh(0.5 * a)) into out: one tanh, no exp to overflow."""
    np.tanh(np.multiply(a, 0.5, out=out), out=out)
    out += 1.0
    out *= 0.5
    return out


def _softmax(a, out):
    """exp(a - max) / sum over the last axis, into out."""
    np.exp(np.subtract(a, a.max(axis=-1, keepdims=True), out=out), out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


# name -> (forward, derivative).  forward(a, out) writes act(a) into out, which
# may be a (linear runs only in place and writes nothing); derivative(g, z, out)
# writes g * act'(a), from the output z = act(a), into out or, if None, a new array.
_ACTS = {
    "linear": (lambda a, out: a, lambda g, z, out: np.copyto(out, g) or out),  # a copy; copyto returns None
    "relu": (lambda a, out: np.maximum(a, 0.0, out=out), lambda g, z, out: np.multiply(g, z > 0, out=out)),
    "tanh": (lambda a, out: np.tanh(a, out=out), lambda g, z, out: np.multiply(g, 1.0 - z * z, out=out)),
    "sigmoid": (_sigmoid, lambda g, z, out: np.multiply(np.multiply(g, z, out=out), 1.0 - z, out=out)),
    "softmax": (_softmax, lambda g, z, out: np.multiply(z, g - (g * z).sum(axis=-1, keepdims=True), out=out)),
}
ACTIVATIONS = tuple(_ACTS)
CONV_ACTIVATIONS = tuple(kind for kind in _ACTS if kind != "softmax")  # softmax would normalize NCHW data over W


def _act_node(kind: str, x: Tensor) -> Tensor:
    forward, derivative = _ACTS[kind]
    out = forward(x.data, np.empty_like(x.data))
    return _make(out, (x,), lambda g: [(x, derivative(g, out, None))])


def relu(x: Tensor) -> Tensor:
    return _act_node("relu", x)


def tanh(x: Tensor) -> Tensor:
    return _act_node("tanh", x)


def sigmoid(x: Tensor) -> Tensor:
    return _act_node("sigmoid", x)


def softmax(x: Tensor) -> Tensor:
    return _act_node("softmax", x)


def activation(kind: str, x: Tensor) -> Tensor:
    if kind not in _ACTS:
        raise ConfigError(f"unknown activation kind: {kind!r}")
    return x if kind == "linear" else _act_node(kind, x)


def _head(op: str, y: np.ndarray, act: str, scale) -> tuple:
    """A layer's head on its op's fresh result y: act(y), or act(y * s) for scale = (omega_t, nu, c).

    y is in the op's working layout, rows [B, C] or a conv's batch-last
    [C, H, W, B], and s[b, j] = omega_t[b] * nu[j] + c[j].  Returns (z as
    rows or an NCHW view, back), where back maps z's gradient to y's and
    the nu/c gradients, in z's layout.  Unscaled, y is activated in place.
    The float operations and their order are those of activation(act,
    scale_channels(y, affine_outer(omega_t, nu, c))).  omega_t is [B]; a
    0-d one, which an op hands on only on the tape (see _fold), is
    repeated to [B].  A conv refuses softmax, which would normalize NCHW
    data over W.
    """
    spatial = y.ndim == 4
    if act not in (CONV_ACTIVATIONS if spatial else ACTIVATIONS):
        raise ConfigError(f"{op}: activation {act!r} is not one of {CONV_ACTIVATIONS if spatial else ACTIVATIONS}")
    forward, derivative = _ACTS[act]
    nchw = (lambda a: a.transpose(3, 0, 1, 2)) if spatial else (lambda a: a)
    if scale is None:
        z = nchw(forward(y, y))
        return z, (lambda g: (g, [])) if act == "linear" else (lambda g: (derivative(g, z, None), []))
    omega_t, nu, c = scale
    omega_t = np.asarray(omega_t, dtype=np.float64)
    C, B = (y.shape[0], y.shape[3]) if spatial else (y.shape[1], y.shape[0])
    if omega_t.ndim == 0:
        omega_t = np.full(B, omega_t)
    if omega_t.shape != (B,) or nu.data.shape != (C,) or c.data.shape != (C,):
        raise ConfigError(f"{op}: scale omega {omega_t.shape}, nu {nu.data.shape}, c {c.data.shape} vs {B}x{C}")
    s = omega_t[:, None] * nu.data + c.data
    sl = np.ascontiguousarray(s.T).reshape(C, 1, 1, B) if spatial else s
    z = np.multiply(y, sl, out=np.empty(y.shape))
    forward(z, z)

    def back(g):
        ga = derivative(g.transpose(1, 2, 3, 0) if spatial else g, z, np.empty_like(z))  # d loss / d (y * s)
        grads = []
        if nu._track or c._track:
            ds = np.einsum("chwb,chwb->bc", ga, y) if spatial else ga * y  # [B, C]
            if nu._track:
                grads.append((nu, omega_t @ ds))
            if c._track:
                grads.append((c, ds.sum(axis=0)))
        ga *= sl
        return nchw(ga), grads

    return nchw(z), back


def _fold(op: str, scale, C: int) -> tuple:
    """(s, params) of an op's scale: s = omega_t * nu + c [C] for a 0-d omega_t inside no_tape(), else None.

    params, (nu, c) or () without a scale, are the node's parents beside
    its input, kernel and bias.  At one condition, a 0-d omega_t, a scaled
    layer is a plain layer with kernel k * s and bias b * s, s along the
    output channels: inside no_tape(), where no backward runs, the op
    multiplies its weights by s before its GEMM and hands _head no scale.
    Elsewhere _head applies the scale, so no backward reads folded
    weights.  The two agree up to rounding: here s scales each product
    before the sum, there the sum.
    """
    if scale is None:
        return None, ()
    omega_t, nu, c = scale
    if getattr(omega_t, "ndim", 0) or _recording.get():  # not np.ndim, whose dispatch is ~1% of a dense step
        return None, (nu, c)
    if nu.data.shape != (C,) or c.data.shape != (C,):
        raise ConfigError(f"{op}: scale nu {nu.data.shape}, c {c.data.shape} vs {C} output channels")
    return float(omega_t) * nu.data + c.data, (nu, c)  # float() refuses a list, which has no ndim


# ---------------------------------------------------------------------------
# reductions & reshaping


def tsum(x: Tensor) -> Tensor:
    return _make(np.asarray(x.data.sum()), (x,), lambda g: [(x, np.broadcast_to(g, x.data.shape).copy())])


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    return _make(np.asarray(x.data.mean()), (x,), lambda g: [(x, np.broadcast_to(g / n, x.data.shape).copy())])


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape, sx = tuple(shape), x.data.shape
    if any(d < 0 for d in shape) or math.prod(shape) != x.data.size:
        raise ConfigError(f"reshape: cannot view {sx} as {shape}")
    return _make(x.data.reshape(shape), (x,), lambda g: [(x, g.reshape(sx))])


# ---------------------------------------------------------------------------
# convolution


def _conv_dims(op: str, x: Tensor, k: Tensor, b: Tensor) -> tuple[int, ...]:
    """(B, Cin, H, W, Cout, KH, KW) of x [B,Cin,H,W], k [Cout,Cin,KH,KW], b [Cout]."""
    sx, sk = x.data.shape, k.data.shape
    if len(sx) != 4 or len(sk) != 4:
        raise ConfigError(f"{op}: input {sx}, kernels {sk}")
    B, Cin, H, W = sx
    Cout, KCin, KH, KW = sk
    if KCin != Cin:
        raise ConfigError(f"{op}: input channels {Cin} vs kernel channels {KCin}")
    if KH < 1 or KW < 1:
        raise ConfigError(f"{op}: empty kernel {sk}")
    if b.data.shape != (Cout,):
        raise ConfigError(f"{op}: bias {b.data.shape} vs {Cout} output channels")
    return B, Cin, H, W, Cout, KH, KW


def conv_output_size(where: str, h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    """(Ho, Wo) of a kh x kw conv at `stride` over an h x w input padded by `padding`; errors start with `where`."""
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    if (h + 2 * padding - kh) % stride or (w + 2 * padding - kw) % stride:
        problem = "non-integral output size"
    elif ho < 1 or wo < 1:
        problem = f"empty output ({ho}x{wo})"
    else:
        return ho, wo
    raise ConfigError(f"{where}: {problem} for input {h}x{w}, kernel {kh}x{kw}, stride {stride}, padding {padding}")


@functools.lru_cache(maxsize=256)
def _tap_plan(C: int, H: int, W: int, KH: int, KW: int, h: int, w: int, step: int, oh: int, ow: int) -> tuple:
    """(idx, inv): where each tap of a KH x KW kernel on an h x w grid reads a batch-last C x H x W image.

    Tap (ki, kj, c, i, j) reads row oh + step*i + ki, column ow + step*j + kj
    of channel c: row idx[tap] of the image viewed as [C*H*W, B] with a zero
    row appended, which a tap off the image reads.  Taps are numbered in the
    order of the flattened [KH, KW, C, h, w] grid.  inv [M, C*H*W] is the
    inverse: inv[m, n] is the m-th tap in ascending order that reads image
    row n, or, past the last, the index of a zero row appended to the taps.
    The plan depends on the geometry alone, so it is built once per
    geometry; both arrays are read-only.
    """
    r = oh + step * np.arange(h) + np.arange(KH)[:, None]  # [KH, h]
    q = ow + step * np.arange(w) + np.arange(KW)[:, None]  # [KW, w]
    r, q = r[:, None, None, :, None], q[None, :, None, None, :]
    rows = (np.arange(C)[:, None, None] * H + r) * W + q
    return _with_inverse(np.where((0 <= r) & (r < H) & (0 <= q) & (q < W), rows, C * H * W).ravel(), C * H * W)


@functools.lru_cache(maxsize=256)
def _dense_plan(Cout: int, Cin: int, H: int, W: int, KH: int, KW: int, Ho: int, Wo: int, stride: int, padding: int):
    """(idx, inv): a conv kernel [Cout, Cin, KH, KW] as the dense matrix [Cout*Ho*Wo, Cin*H*W] over an H x W map.

    Entry (o, i, j, c, r, q) is the weight output pixel (i, j) of channel o
    gives input pixel (r, q) of channel c: element (o, c, r - stride*i +
    padding, q - stride*j + padding) of the kernel, or 0 where that is off
    the kernel.  idx [Cout*Ho*Wo*Cin*H*W] is the entry's index into the
    raveled kernel with a zero appended, and inv [M, Cout*Cin*KH*KW] its
    inverse: inv[m, n] is the m-th entry in ascending order that holds
    kernel element n, or, past the last, the index of a zero appended to
    the entries.  Built once per geometry, as _tap_plan; both arrays are
    read-only, and int32, which halves what the cache keeps: idx is as
    large as the dense matrix, 128 KiB for a 4x4 kernel from 16 to 32
    channels on a 4x4 map.
    """
    a = padding + np.arange(H) - stride * np.arange(Ho)[:, None]  # [Ho, H]: the kernel row
    e = padding + np.arange(W) - stride * np.arange(Wo)[:, None]  # [Wo, W]: the kernel column
    a, e = a[:, None, None, :, None], e[None, :, None, None, :]
    n = (np.arange(Cout)[:, None, None, None, None, None] * Cin + np.arange(Cin)[:, None, None]) * KH * KW + a * KW + e
    size = Cout * Cin * KH * KW
    idx = np.where((0 <= a) & (a < KH) & (0 <= e) & (e < KW), n, size).astype(np.int32).ravel()
    return _with_inverse(idx, size)


def _with_inverse(idx, n: int) -> tuple:
    """(idx, inv) made read-only, where inv [M, n] (idx's dtype) lists, for each target r < n, where idx holds r.

    inv[m, r] is the m-th such position in ascending order, or, past the
    last, idx.size; idx holds n where it points at no target.
    """
    counts = np.bincount(idx, minlength=n + 1)[:-1]
    kept = np.argsort(idx, kind="stable")[: counts.sum()]  # the positions that point at a target, by target
    inv = np.full((counts.max(initial=1), n), idx.size, dtype=idx.dtype)
    inv[np.arange(kept.size) - (np.cumsum(counts) - counts)[idx[kept]], idx[kept]] = kept
    idx.flags.writeable = inv.flags.writeable = False
    return idx, inv


def _zero_row_below(a):
    """Batch-last a [..., B] copied as rows [N, B], with a zero row N appended."""
    z = np.empty((a.size // a.shape[-1] + 1, a.shape[-1]))
    np.copyto(z[:-1].reshape(a.shape), a)
    z[-1] = 0.0
    return z


def _tap_sum(a, b, inv, width: int):
    """Rows [N, width]: the product a @ b, viewed as rows of `width`, each summed onto its row of inv.

    For a conv's input gradient the product is the taps [KH*KW*C, h*w*B]
    and the rows are the image's, width B; for a dense-path kernel
    gradient it is the dense matrix's gradient and the rows are the
    kernel's elements, width 1.  One take per slot of inv, each added in
    turn, so a row's products are summed in ascending order.
    """
    taps = np.empty((a.shape[0] * b.shape[1] // width + 1, width))
    np.matmul(a, b, out=taps[:-1].reshape(a.shape[0], b.shape[1]))
    taps[-1] = 0.0
    out = taps.take(inv[0], axis=0)
    for slot in inv[1:]:
        out += taps.take(slot, axis=0)
    return out


def conv2d(
    x: Tensor, k: Tensor, b: Tensor, stride: int = 1, padding: int = 0, act: str = "linear", scale=None
) -> Tensor:
    """Batched cross-correlation: x [B,Cin,H,W], k [Cout,Cin,KH,KW], b [Cout], then _fold and _head.

    Computed batch-last, and the output is an NCHW view of the
    [Cout, Ho*Wo*B] result.  The geometry alone picks one of two paths.

    A map larger than the kernel window (H*W > KH*KW) runs on one memoized
    _tap_plan: the columns [KH*KW*Cin, Ho*Wo*B] are one take of the
    input's rows through idx (a tap on the padding reads the zero row), and
    the forward is one GEMM of the kernel flattened as [Cout, KH*KW*Cin]
    with them.  The backward reuses both: dk is one GEMM with the columns,
    and dx one GEMM into tap rows, summed onto the input's pixels through
    inv.  The columns stay live from the forward to the backward (inside
    no_tape() only until the head), KH*KW/stride**2 times the input, and
    dx's tap rows are as large, so forward plus backward peak at 20.9x the
    input's bytes for a 3x3 conv from 16 channels.

    A map no larger than the window (H*W <= KH*KW), where many taps would
    read the padding, runs on one memoized _dense_plan: the kernel is one
    take into the dense matrix [Cout*Ho*Wo, Cin*H*W], and the forward is
    one GEMM of it with the input's batch-last rows [Cin*H*W, B]: no
    column matrix, and no more multiply-adds than the taps.  dx is one
    GEMM with its transpose, and dk one GEMM into the matrix's shape,
    summed onto the kernel through inv.  Its scratch does not grow with
    the batch: the raveled kernel, the dense matrix (kept to the
    backward), and in the backward the matrix's gradient, each at most
    Ho*Wo times the kernel; the input's rows are a view of a batch-last
    input, as a conv's output is, and a copy of any other.
    """
    B, Cin, H, W, Cout, KH, KW = _conv_dims("conv2d", x, k, b)
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride/padding ({stride}, {padding})")
    Ho, Wo = conv_output_size("conv2d", H, W, KH, KW, stride, padding)
    s, scale_params = _fold("conv2d", scale, Cout)
    dense = H * W <= KH * KW
    if dense:
        idx, inv = _dense_plan(Cout, Cin, H, W, KH, KW, Ho, Wo, stride, padding)
        kz = np.empty(k.data.size + 1)  # the raveled kernel and a zero, which entries off the kernel read
        kz[-1] = 0.0
        np.multiply(k.data, 1.0 if s is None else s[:, None, None, None], out=kz[:-1].reshape(k.data.shape))
        kf = kz.take(idx).reshape(Cout * Ho * Wo, Cin * H * W)
        cols = x.data.transpose(1, 2, 3, 0).reshape(Cin * H * W, B)
    else:
        idx, inv = _tap_plan(Cin, H, W, KH, KW, Ho, Wo, stride, -padding, -padding)
        cols = _zero_row_below(x.data.transpose(1, 2, 3, 0)).take(idx, axis=0).reshape(KH * KW * Cin, Ho * Wo * B)
        kt = k.data.transpose(0, 2, 3, 1)
        kf = kt if s is None else np.multiply(kt, s[:, None, None, None], out=np.empty(kt.shape))
        kf = kf.reshape(Cout, KH * KW * Cin)
    y = (kf @ cols).reshape(Cout, Ho * Wo * B)
    y += (b.data if s is None else b.data * s)[:, None]
    if not _recording.get():
        cols = None  # no backward will read them
    out, head = _head("conv2d", y.reshape(Cout, Ho, Wo, B), act, scale if s is None else None)

    def backward(g):
        g, grads = head(g)
        gm = g.transpose(1, 2, 3, 0).reshape(Cout, Ho * Wo * B)
        if x._track:
            dx = kf.T @ gm.reshape(Cout * Ho * Wo, B) if dense else _tap_sum(kf.T, gm, inv, B)
            grads.append((x, dx.reshape(Cin, H, W, B).transpose(3, 0, 1, 2)))
        if k._track:
            if dense:  # the dense matrix's gradient, summed onto the kernel's elements
                dk = _tap_sum(gm.reshape(Cout * Ho * Wo, B), cols.T, inv, 1).reshape(Cout, Cin, KH, KW)
            else:
                dk = (gm @ cols.T).reshape(Cout, KH, KW, Cin).transpose(0, 3, 1, 2)
            grads.append((k, dk))
        if b._track:
            grads.append((b, gm.sum(axis=1)))
        return grads

    return _make(out, (x, k, b) + scale_params, backward)


def upconv2d(x: Tensor, k: Tensor, b: Tensor, upsample: int, padding: int, act: str = "linear", scale=None) -> Tensor:
    """conv2d(upsample_zero(x, upsample), k, b, 1, padding, ...), computed as a transposed conv.

    Only the real pixels are multiplied: pixel i sits at upsample*i of the
    upsampled grid, so tap a of the flipped kernel sends it to output row
    upsample*i + padding - (KH-1) + a (columns likewise).  That is conv2d
    mirrored, batch-last on one _tap_plan over the output: the forward is
    one GEMM of the flipped kernel, flattened as [Cin, KH*KW*Cout], into
    tap rows, summed onto the output's pixels through inv, plus the bias;
    the backward is one take of the output gradient's rows through idx and
    two GEMMs, dx and dk.  Forward plus backward peak at 5.4x the output's
    bytes for a 4 -> 32 channel deconv (k3, u2), while the zero-inserted
    conv's input alone is upsample**2 times x.
    """
    B, Cin, H, W, Cout, KH, KW = _conv_dims("upconv2d", x, k, b)
    if upsample < 1 or padding < 0:
        raise ConfigError(f"upconv2d: bad upsample/padding ({upsample}, {padding})")
    Ho, Wo = conv_output_size("upconv2d", upsample * H, upsample * W, KH, KW, 1, padding)
    idx, inv = _tap_plan(Cout, Ho, Wo, KH, KW, H, W, upsample, padding - KH + 1, padding - KW + 1)
    xm = x.data.transpose(1, 2, 3, 0).reshape(Cin, H * W * B)
    s, scale_params = _fold("upconv2d", scale, Cout)
    kt = k.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0)  # [Cin, KH, KW, Cout]: s runs along the last axis
    kf = (kt if s is None else np.multiply(kt, s, out=np.empty(kt.shape))).reshape(Cin, KH * KW * Cout)
    y = _tap_sum(kf.T, xm, inv, B).reshape(Cout, Ho * Wo * B)
    y += (b.data if s is None else b.data * s)[:, None]
    out, head = _head("upconv2d", y.reshape(Cout, Ho, Wo, B), act, scale if s is None else None)

    def backward(g):
        g, grads = head(g)
        cols = _zero_row_below(g.transpose(1, 2, 3, 0)).take(idx, axis=0).reshape(KH * KW * Cout, H * W * B)
        if x._track:
            grads.append((x, (kf @ cols).reshape(Cin, H, W, B).transpose(3, 0, 1, 2)))
        if k._track:
            grads.append((k, (xm @ cols.T).reshape(Cin, KH, KW, Cout).transpose(3, 0, 1, 2)[:, :, ::-1, ::-1]))
        if b._track:
            grads.append((b, g.sum(axis=(0, 2, 3))))
        return grads

    return _make(out, (x, k, b) + scale_params, backward)


def upsample_zero(x: Tensor, factor: int) -> Tensor:
    """Fractional-stride upsampling: insert zeros so pixel i lands at i*factor.

    No layer calls it.  conv2d over its output defines upconv2d, and the
    tests hold upconv2d to that definition.
    """
    if x.data.ndim != 4:
        raise ConfigError(f"upsample_zero expects 4-d input, got {x.data.shape}")
    if factor < 1:
        raise ConfigError(f"upsample_zero: factor must be >= 1, got {factor}")
    if factor == 1:
        return x
    B, C, H, W = x.data.shape
    out = np.zeros((B, C, H * factor, W * factor))
    out[:, :, ::factor, ::factor] = x.data
    return _make(out, (x,), lambda g: [(x, g[:, :, ::factor, ::factor].copy())])


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Max relative error between tape gradients and central differences (step 1e-5).

    Each element's error is relative to its larger gradient, floored at 1e-3
    of its parameter's largest tape |gradient| (and at 1e-8): the rounding
    noise of the differences, ~1e-11 on a loss near 1, is no error of a
    correct gradient however small the element.  `f` must rebuild the
    forward pass on every call and be deterministic (freeze any RNG).
    """
    for p in params:
        p.grad = None
    loss = f()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    h = 1e-5
    max_err = 0.0
    for p, a in zip(params, analytic):
        flat, aflat = p.data.reshape(-1), a.reshape(-1)
        floor = max(1e-3 * np.abs(aflat).max(initial=0.0), 1e-8)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().data)
            flat[i] = orig - h
            fm = float(f().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            max_err = max(max_err, abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), floor))
    return max_err
