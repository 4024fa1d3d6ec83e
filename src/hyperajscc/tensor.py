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
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ConfigError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"matmul inner dims disagree: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward(g):
        grads = []
        if a._track:
            grads.append((a, g @ b.data.T))
        if b._track:
            grads.append((b, a.data.T @ g))
        return grads

    return _make(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w.T + b for x [B,Din], w [Dout,Din], b [Dout]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ConfigError(f"linear: input {x.shape} does not match weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ConfigError(f"linear: bias {b.shape} does not match weight {w.shape}")
    out = x.data @ w.data.T + b.data

    def backward(g):
        grads = []
        if x._track:
            grads.append((x, g @ w.data))
        if w._track:
            grads.append((w, g.T @ x.data))
        if b._track:
            grads.append((b, g.sum(axis=0)))
        return grads

    return _make(out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# elementwise


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ConfigError(f"{op}: shapes differ: {a.shape} vs {b.shape}")


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
    if v.data.ndim != 1 or v.shape[0] != a.shape[0]:
        raise ConfigError(f"scale_rowwise: vector {v.shape} does not match leading dim of {a.shape}")
    vr = v.data.reshape((a.shape[0],) + (1,) * (a.data.ndim - 1))
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
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ConfigError(f"mul_rowvec: {x.shape} vs {v.shape}")
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
    if x.data.ndim < 2 or s.shape != x.shape[:2]:
        raise ConfigError(f"scale_channels: scale {s.shape} vs batch/channels of {x.shape}")
    trailing = tuple(range(2, x.data.ndim))
    sr = s.data.reshape(s.shape + (1,) * len(trailing))
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
    if omega.ndim != 1 or nu.data.ndim != 1 or nu.shape != c.shape:
        raise ConfigError(f"affine_outer: omega {omega.shape}, nu {nu.shape}, c {c.shape}")
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
SCALE_ACTIVATIONS = tuple(kind for kind in _ACTS if kind != "softmax")  # softmax would normalize NCHW data over W


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


def scale_act(y: Tensor, omega_t, nu: Tensor, c: Tensor, act: str) -> Tensor:
    """act(y * s) with s[b, j] = omega_t[b] * nu[j] + c[j]: one graph node.

    The same numbers as activation(act, scale_channels(y, affine_outer(omega_t,
    nu, c))), computed batch-last: y [B, C, H, W] is read as [C, H, W, B],
    which for a conv or deconv output is the memory under it, scaled by s.T
    broadcast as [C, 1, 1, B] into one new array and activated in place, so
    every loop runs over the batch, not over a few channels.  The result is
    an NCHW view of that array, and so is the gradient handed back to y,
    which the conv ops read batch-last without a copy.  Dense rows y [B, C]
    are their own working layout: they are scaled into a new C-ordered
    array with no transposes.  softmax is not fused: on NCHW data it
    normalizes over W, not over the channels.
    """
    omega_t = np.asarray(omega_t, dtype=np.float64)
    if (
        y.data.ndim < 2
        or omega_t.shape != (y.shape[0],)
        or nu.data.ndim != 1
        or nu.shape != c.shape
        or nu.shape[0] != y.shape[1]
    ):
        raise ConfigError(f"scale_act: y {y.shape}, omega {omega_t.shape}, nu {nu.shape}, c {c.shape}")
    if act not in SCALE_ACTIVATIONS:
        raise ConfigError(f"scale_act: activation {act!r} is not one of {SCALE_ACTIVATIONS}")
    nd = y.data.ndim
    spatial = nd > 2
    s = omega_t[:, None] * nu.data + c.data
    if spatial:
        to_work = tuple(range(1, nd)) + (0,)  # [B, C, ...] -> [C, ..., B]
        to_nchw = (nd - 1,) + tuple(range(nd - 1))
        dims = "c" + "hwxyz"[: nd - 2] + "b"  # einsum subscripts of the batch-last layout
        sl = np.ascontiguousarray(s.reshape(s.shape + (1,) * (nd - 2)).transpose(to_work))
        yl = y.data.transpose(to_work)
    else:
        sl, yl = s, y.data
    z = np.multiply(yl, sl, out=np.empty(yl.shape))
    forward, derivative = _ACTS[act]
    forward(z, z)

    def backward(g):
        # d loss / d (y * s), in z's layout
        ga = derivative(g.transpose(to_work) if spatial else g, z, np.empty_like(z))
        grads = []
        if nu._track or c._track:
            ds = np.einsum(f"{dims},{dims}->bc", ga, yl) if spatial else ga * yl  # [B, C]
            if nu._track:
                grads.append((nu, omega_t @ ds))
            if c._track:
                grads.append((c, ds.sum(axis=0)))
        if y._track:
            ga *= sl
            grads.append((y, ga.transpose(to_nchw) if spatial else ga))
        return grads

    return _make(z.transpose(to_nchw) if spatial else z, (y, nu, c), backward)


# ---------------------------------------------------------------------------
# reductions & reshaping


def tsum(x: Tensor) -> Tensor:
    return _make(np.asarray(x.data.sum()), (x,), lambda g: [(x, np.broadcast_to(g, x.shape).copy())])


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    return _make(np.asarray(x.data.mean()), (x,), lambda g: [(x, np.broadcast_to(g / n, x.shape).copy())])


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if any(d < 0 for d in shape) or math.prod(shape) != x.data.size:
        raise ConfigError(f"reshape: cannot view {x.shape} as {shape}")
    return _make(x.data.reshape(shape), (x,), lambda g: [(x, g.reshape(x.shape))])


# ---------------------------------------------------------------------------
# convolution


def _conv_dims(op: str, x: Tensor, k: Tensor, b: Tensor) -> tuple[int, ...]:
    """(B, Cin, H, W, Cout, KH, KW) of x [B,Cin,H,W], k [Cout,Cin,KH,KW], b [Cout]."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ConfigError(f"{op}: input {x.shape}, kernels {k.shape}")
    B, Cin, H, W = x.shape
    Cout, KCin, KH, KW = k.shape
    if KCin != Cin:
        raise ConfigError(f"{op}: input channels {Cin} vs kernel channels {KCin}")
    if KH < 1 or KW < 1:
        raise ConfigError(f"{op}: empty kernel {k.shape}")
    if b.shape != (Cout,):
        raise ConfigError(f"{op}: bias {b.shape} vs {Cout} output channels")
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


def _kernel_rows(k):
    """k [M, C, KH, KW] reordered as the engine's row-major kernel [KH, M, KW*C]: row ki's [M, KW*C] slice."""
    M, C, KH, KW = k.shape
    return k.transpose(2, 0, 3, 1).reshape(KH, M, KW * C)


def _gather(a, KH: int, KW: int, h: int, w: int, step: int, origin: int, kr=None, g=None):
    """(y, dk): batch-last a [C, Hp, Wp, B] correlated with a kernel, and the kernel gradient of g.

    Window (i, j) of the h x w grid starts at row origin + step*i, column
    origin + step*j.  y [M, h*w*B] is the correlation with the kernel given
    row-major as kr [KH, M, KW*C] (_kernel_rows), dk [M, C, KH, KW] that of
    an output gradient g [M, h*w*B] with the windows; each is None when its
    operand is.  One GEMM per kernel row and operand, on the row's band: its
    KW windows, copied from one strided view as [KW*C, h*w*B] into one
    buffer that every row reuses.
    """
    a = np.ascontiguousarray(a)
    C, B = a.shape[0], a.shape[3]
    s0, s1, s2, s3 = a.strides
    # win[ki, kj] is tap (ki, kj) of every window: [C, h, w, B]
    win = np.ndarray(
        (KH, KW, C, h, w, B), a.dtype, a, origin * (s1 + s2), (s1, s2, s0, step * s1, step * s2, s3)
    )
    band = np.empty((KW, C, h, w, B))
    rows = band.reshape(KW * C, h * w * B)
    y = None if kr is None else np.empty((kr.shape[1], h * w * B))
    dk = None if g is None else np.empty((KH, len(g), KW * C))
    for ki in range(KH):
        np.copyto(band, win[ki])
        if kr is not None:
            if ki:
                y += kr[ki] @ rows
            else:
                np.matmul(kr[0], rows, out=y)
        if g is not None:
            np.matmul(g, rows.T, out=dk[ki])
    if dk is not None:
        dk = dk.reshape(KH, len(g), KW, C).transpose(1, 3, 0, 2)
    return y, dk


@functools.lru_cache(maxsize=256)
def _scatter_plan(Hd: int, Wd: int, KH: int, KW: int, h: int, w: int, step: int, oh: int, ow: int) -> tuple:
    """Per kernel row, the (dst index, taps index) pair of each of its KW taps, for _scatter.

    Tap (ki, kj) of grid pixel (i, j) lands at row oh + step*i + ki, column
    ow + step*j + kj of an Hd x Wd dst; each pair selects the grid points
    that land inside it and the dst points they land on.  The plan depends
    on the geometry alone, so it is built once per geometry.
    """

    def inside(start: int, n: int, size: int) -> tuple[slice, slice]:
        """(grid slice, dst slice) of the points start + step*i, i < n, that fall in [0, size)."""
        lo = max(0, -(start // step))
        hi = max(lo, min(n, -((start - size) // step)))
        return slice(lo, hi), slice(start + step * lo, start + step * hi, step)

    cols = [inside(ow + kj, w, Wd) for kj in range(KW)]
    plan = []
    for ki in range(KH):
        gi, di = inside(oh + ki, h, Hd)
        plan.append(tuple(((slice(None), di, dj), (kj, slice(None), gi, gj)) for kj, (gj, dj) in enumerate(cols)))
    return tuple(plan)


def _scatter(dst, kr, g, h: int, w: int, step: int, oh: int, ow: int) -> None:
    """_gather's adjoint: add what kr [KH, M, KW*C] spreads g [M, h*w*B] to into batch-last dst [C, Hd, Wd, B].

    kr is the row-major kernel (_kernel_rows).  Tap (ki, kj) of grid pixel
    (i, j) lands at row oh + step*i + ki, column ow + step*j + kj; the
    origins may be negative, and a tap's products that land outside dst are
    dropped, as _scatter_plan's memoized slices say.  One GEMM per kernel
    row: its [KW*C, M] kernel slice times g, into one buffer that every row
    reuses, holds a contiguous [C, h, w, B] block per tap, whose part inside
    dst is slice-added into it.
    """
    C, Hd, Wd, B = dst.shape
    KH, KW = len(kr), kr.shape[2] // C
    taps = np.empty((KW, C, h, w, B))
    flat = taps.reshape(KW * C, h * w * B)
    for row, plan in zip(kr, _scatter_plan(Hd, Wd, KH, KW, h, w, step, oh, ow)):
        np.matmul(row.T, g, out=flat)
        for d, t in plan:
            dst[d] += taps[t]


def conv2d(x: Tensor, k: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched cross-correlation: x [B,Cin,H,W], k [Cout,Cin,KH,KW], b [Cout].

    Computed batch-last on the input padded into [Cin, Hp, Wp, B]: the
    forward and dk are one _gather, dx one _scatter that drops the taps on
    the padding, and the output is an NCHW view of the [Cout, Ho*Wo*B]
    result.  The kernel is reordered row-major once, in the forward, and
    the backward's _scatter reuses that copy.  The scratch is one kernel
    row's band or product, [Cin*KW, Ho*Wo*B], about KW/stride**2 times the
    input, so forward plus backward peak at a few times the input's bytes:
    6.51x for a 3x3 conv from 16 channels.
    """
    B, Cin, H, W, Cout, KH, KW = _conv_dims("conv2d", x, k, b)
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride/padding ({stride}, {padding})")
    s, p = stride, padding
    Ho, Wo = conv_output_size("conv2d", H, W, KH, KW, s, p)
    xp = np.zeros((Cin, H + 2 * p, W + 2 * p, B))
    xp[:, p : p + H, p : p + W] = x.data.transpose(1, 2, 3, 0)
    kr = _kernel_rows(k.data)
    y, _ = _gather(xp, KH, KW, Ho, Wo, s, 0, kr=kr)
    y += b.data[:, None]
    out = y.reshape(Cout, Ho, Wo, B).transpose(3, 0, 1, 2)

    def backward(g):
        grads = []
        gm = g.transpose(1, 2, 3, 0).reshape(Cout, Ho * Wo * B)
        if x._track:
            dx = np.zeros((Cin, H, W, B))
            _scatter(dx, kr, gm, Ho, Wo, s, -p, -p)
            grads.append((x, dx.transpose(3, 0, 1, 2)))
        if k._track:
            grads.append((k, _gather(xp, KH, KW, Ho, Wo, s, 0, g=gm)[1]))
        if b._track:
            grads.append((b, gm.sum(axis=1)))
        return grads

    return _make(out, (x, k, b), backward)


def upconv2d(x: Tensor, k: Tensor, b: Tensor, upsample: int, padding: int) -> Tensor:
    """conv2d(upsample_zero(x, upsample), k, b, 1, padding), computed as a transposed conv.

    Only the real pixels are multiplied: pixel i sits at upsample*i of the
    upsampled grid, so tap a of the flipped kernel sends it to output row
    upsample*i + padding - (KH-1) + a (columns likewise).  Batch-last, on
    conv2d's two kernels the other way round: the forward is one _scatter
    of the input by the flipped kernel into the bias-filled output, which
    drops the taps that land outside it; dx and dk are one _gather of the
    output gradient padded by KH-1 rows and KW-1 columns on each side.  The
    flipped kernel is reordered row-major once, in the forward, and the
    backward's _gather reuses that copy.  A row's product or band is
    [Cout*KW, H*W*B], KW/upsample**2 times the output: forward plus
    backward peak at 5.1x the output for a 4 -> 32 channel deconv (k3, u2),
    while the zero-inserted conv's input alone is upsample**2 times x.
    """
    B, Cin, H, W, Cout, KH, KW = _conv_dims("upconv2d", x, k, b)
    if upsample < 1 or padding < 0:
        raise ConfigError(f"upconv2d: bad upsample/padding ({upsample}, {padding})")
    u, p = upsample, padding
    Ho, Wo = conv_output_size("upconv2d", u * H, u * W, KH, KW, 1, p)
    xm = x.data.transpose(1, 2, 3, 0).reshape(Cin, H * W * B)
    # the flipped kernel [Cin, Cout, KH, KW], a conv from Cout to Cin, row-major
    krt = _kernel_rows(k.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    y = np.broadcast_to(b.data[:, None, None, None], (Cout, Ho, Wo, B)).copy()
    _scatter(y, krt, xm, H, W, u, p - (KH - 1), p - (KW - 1))
    out = y.transpose(3, 0, 1, 2)

    def backward(g):
        grads = []
        # output row r lives at row r + KH - 1 of gp
        gp = np.zeros((Cout, Ho + 2 * (KH - 1), Wo + 2 * (KW - 1), B))
        gp[:, KH - 1 : KH - 1 + Ho, KW - 1 : KW - 1 + Wo] = g.transpose(1, 2, 3, 0)
        dx, dkt = _gather(gp, KH, KW, H, W, u, p, kr=krt if x._track else None, g=xm if k._track else None)
        if x._track:
            grads.append((x, dx.reshape(Cin, H, W, B).transpose(3, 0, 1, 2)))
        if k._track:
            grads.append((k, dkt.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]))
        if b._track:
            grads.append((b, g.sum(axis=(0, 2, 3))))
        return grads

    return _make(out, (x, k, b), backward)


def upsample_zero(x: Tensor, factor: int) -> Tensor:
    """Fractional-stride upsampling: insert zeros so pixel i lands at i*factor.

    No layer calls it.  conv2d over its output defines upconv2d, and the
    tests hold upconv2d to that definition.
    """
    if x.data.ndim != 4:
        raise ConfigError(f"upsample_zero expects 4-d input, got {x.shape}")
    if factor < 1:
        raise ConfigError(f"upsample_zero: factor must be >= 1, got {factor}")
    if factor == 1:
        return x
    B, C, H, W = x.shape
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
