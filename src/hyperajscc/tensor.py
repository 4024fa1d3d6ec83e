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
    """act((x @ w.T + b) * s) for x [B,Din], w [Dout,Din], b [Dout]; s is 1 or the scale's (see _head)."""
    sx, sw = x.data.shape, w.data.shape
    if len(sx) != 2 or len(sw) != 2 or sx[1] != sw[1]:
        raise ConfigError(f"linear: input {sx} does not match weight {sw}")
    if b.data.shape != (sw[0],):
        raise ConfigError(f"linear: bias {b.data.shape} does not match weight {sw}")
    out, head = _head("linear", x.data @ w.data.T + b.data, act, scale)

    def backward(g):
        g, grads = head(g)
        if x._track:
            grads.append((x, g @ w.data))
        if w._track:
            grads.append((w, g.T @ x.data))
        if b._track:
            grads.append((b, g.sum(axis=0)))
        return grads

    return _make(out, (x, w, b) if scale is None else (x, w, b, *scale[1:]), backward)


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
    0-d one is repeated to [B], on the tape or off it (a layer at one
    condition off the tape hands its op no scale: layers.HyperLayer.forward
    folds s into the weights).  A conv refuses softmax, which would
    normalize NCHW data over W.
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
    order of the flattened [KH, KW, C, h, w] grid.  inv is _with_inverse's
    trimmed inverse over the C*H*W image rows: the taps that read each row,
    in ascending order.  The plan depends on the geometry alone, so it is
    built once per geometry; all its arrays are read-only.
    """
    r = oh + step * np.arange(h) + np.arange(KH)[:, None]  # [KH, h]
    q = ow + step * np.arange(w) + np.arange(KW)[:, None]  # [KW, w]
    r, q = r[:, None, None, :, None], q[None, :, None, None, :]
    rows = (np.arange(C)[:, None, None] * H + r) * W + q
    return _with_inverse(np.where((0 <= r) & (r < H) & (0 <= q) & (q < W), rows, C * H * W).ravel(), C * H * W)


@functools.lru_cache(maxsize=256)
def _window_plan(Cin: int, H: int, W: int, KH: int, KW: int, Ho: int, Wo: int, stride: int, padding: int) -> tuple:
    """(kidx, kinv, xidx, xinv): each output pixel's window, the taps of a KH x KW kernel that land on an H x W map.

    Output pixel p = (i, j) reaches the kernel rows a with 0 <= stride*i +
    a - padding < H, a block, and the kernel columns likewise: its window
    is that block of taps (a, e), each reading input pixel (stride*i + a -
    padding, stride*j + e - padding).  The plan takes one of two forms.

    Where every window is the whole map, its H*W pixels in order, xidx and
    xinv are None, and kidx [P, Cin, H*W] (P = Ho*Wo) is each entry's
    kernel element c*KH*KW + a*KW + e: the kernel's windows are then one
    [Cout*P, Cin*H*W] matrix against the input's batch-last rows.  kinv is
    _with_inverse's trimmed inverse over the Cin*KH*KW elements for kidx
    transposed to [Cin, H*W, P], the layout of the kernel gradient's GEMM.

    Otherwise the windows are padded to the largest, nt taps, and listed
    as [P, nt]: kidx names each entry's tap a*KW + e, a row of the kernel's
    Cin*Cout weights, and xidx its pixel r*W + q, a row of the input's
    Cin*B values; a fill names the zero row below each (KH*KW and H*W).
    kinv and xinv are the trimmed inverses over the KH*KW taps and the
    H*W pixels.  Built once per geometry, as _tap_plan; all its arrays are
    read-only.
    """
    i, j = np.arange(Ho), np.arange(Wo)
    a0, a1 = np.maximum(padding - stride * i, 0), np.minimum(H + padding - stride * i, KH)  # [Ho]: rows a0 <= a < a1
    e0, e1 = np.maximum(padding - stride * j, 0), np.minimum(W + padding - stride * j, KW)
    nh, nw = max(0, (a1 - a0).max()), max(0, (e1 - e0).max())
    a, e = a0[:, None] + np.arange(nh), e0[:, None] + np.arange(nw)  # [Ho, nh], [Wo, nw]
    on = ((a < a1[:, None])[:, None, :, None] & (e < e1[:, None])[None, :, None, :]).reshape(Ho * Wo, nh * nw)
    a, e = a[:, None, :, None], e[None, :, None, :]
    tap = (a * KW + e).reshape(on.shape)
    if on.all() and nh * nw == H * W:  # every window is the whole map
        kidx = (np.arange(Cin)[:, None] * KH * KW + tap[:, None]).ravel()
        kinv = _with_inverse(kidx.reshape(Ho * Wo, Cin * H * W).T.ravel(), Cin * KH * KW)[1]
        kidx.flags.writeable = False
        return kidx, kinv, None, None
    r, q = a - padding + stride * i[:, None, None, None], e - padding + stride * j[:, None, None]
    kidx, kinv = _with_inverse(np.where(on, tap, KH * KW).ravel(), KH * KW)
    return (kidx, kinv, *_with_inverse(np.where(on, (r * W + q).reshape(on.shape), H * W).ravel(), H * W))


def _with_inverse(idx, n: int) -> tuple:
    """(idx, inv) made read-only, where inv = (slots, perm) lists, for each target r < n, where idx holds r.

    A target's taps are the positions where idx holds it, in ascending
    order; idx holds n where it points at no target.  The targets are
    ordered by their tap count, most first (a stable sort), and slots[m]
    (idx's dtype) holds the (m+1)-th tap of each target in that order that
    has one: a prefix of the order, as long as the number of targets with
    more than m taps.  slots[0] alone covers every target, and a target
    with no tap reads idx.size there.  perm takes the order back to target
    order.
    """
    counts = np.bincount(idx, minlength=n + 1)[:-1]
    order = np.argsort(-counts, kind="stable")  # the targets, most taps first
    taps = np.append(np.argsort(idx, kind="stable")[: counts.sum()], idx.size).astype(idx.dtype)  # by target; the fill
    first = np.where(counts > 0, np.cumsum(counts) - counts, taps.size - 1)[order]  # each target's first tap, or fill
    slots = tuple(taps[first[: np.count_nonzero(counts > m) if m else n] + m] for m in range(max(1, counts.max())))
    perm = np.argsort(order).astype(idx.dtype)
    for a in (idx, perm, *slots):
        a.flags.writeable = False
    return idx, (slots, perm)


def _zero_row_below(a, width: int):
    """a copied as rows [N, width], with a zero row N appended."""
    z = np.empty((a.size // width + 1, width))
    np.copyto(z[:-1].reshape(a.shape), a)
    z[-1] = 0.0
    return z


def _tap_sum(a, b, inv, width: int):
    """Rows [N, width]: the product a @ b, viewed as rows of `width`, each summed onto its row of inv.

    a and b are matrices, or stacks of as many matrices (one batched
    GEMM).  For a conv's input gradient on its taps the product is the tap
    rows [KH*KW*C, h*w*B] and the rows are the image's, width B.  On a
    conv's windows it is the window rows [Ho*Wo, n, B] summed onto the
    pixels (width Cin*B) or the window kernel gradients [Ho*Wo, n, Cout]
    summed onto the taps (width Cin*Cout), or, where every window is the
    whole map, the kernel gradient [Cin*H*W, Ho*Wo*Cout] summed onto the
    kernel's elements (width Cout).  One take per slot of inv: slot 0 for
    every row (a row with no tap reads the zero row), each further slot
    added onto the prefix of rows that has that many taps, so a row's
    products are summed in ascending order and no row adds a zero.  One
    more take puts the rows back in order.  Scratch: the product and two
    output-sized arrays, the sorted sum and a slot's take or the rows
    restored.
    """
    shape = a.shape[:-1] + b.shape[-1:]
    taps = np.empty((math.prod(shape) // width + 1, width))
    np.matmul(a, b, out=taps[:-1].reshape(shape))
    taps[-1] = 0.0
    slots, perm = inv
    out = taps.take(slots[0], axis=0)
    for slot in slots[1:]:
        out[: slot.size] += taps.take(slot, axis=0)
    return out.take(perm, axis=0)


def conv2d(
    x: Tensor, k: Tensor, b: Tensor, stride: int = 1, padding: int = 0, act: str = "linear", scale=None
) -> Tensor:
    """Batched cross-correlation: x [B,Cin,H,W], k [Cout,Cin,KH,KW], b [Cout], then _head.

    Computed batch-last, and the output is an NCHW view of the
    [Cout, Ho*Wo*B] result.  The geometry alone picks one of two paths.

    A map larger than the kernel window (H*W > KH*KW) runs on one memoized
    _tap_plan: the columns [KH*KW*Cin, Ho*Wo*B] are one take of the
    input's rows through idx (a tap on the padding reads the zero row), and
    the forward is one GEMM of the kernel flattened as [Cout, KH*KW*Cin]
    with them.  The backward reuses both: dk is one GEMM with the columns,
    and dx one GEMM into tap rows, summed onto the input's pixels through
    inv by _tap_sum.  The columns stay live from the forward to the
    backward (inside no_tape() only until the head), KH*KW/stride**2 times
    the input, and dx's tap rows are as large; the sum's take that
    restores the row order adds one input-sized array where the last
    slot's take has been freed, so forward plus backward still peak at
    20.9x the input's bytes for a 3x3 conv from 16 channels.

    A map no larger than the window (H*W <= KH*KW), where many taps would
    read the padding, runs on one memoized _window_plan, which lists each
    output pixel's window: the kernel taps that land on the map and the
    input pixels they read.  Only real products are multiplied.  Where
    every window is the whole map (a 3x3 kernel at padding 1 on a 2x2 map)
    the windows stack into one [Cout*Ho*Wo, Cin*H*W] matrix, one take of
    the kernel's elements, and the forward is one GEMM of it with the
    input's batch-last rows [Cin*H*W, B], a view of a batch-last input, as
    a conv's output is, and a copy of any other.  dx is one GEMM with its
    transpose, and dk one GEMM [Cin*H*W, Ho*Wo*Cout] summed onto the
    kernel's elements through kinv by _tap_sum.  Otherwise (a 4x4 kernel
    at stride 2 on a 4x4 map, where 9 of the 16 taps reach each output
    pixel) the windows are laid out pixel by pixel, tap-major: each
    window's kernel is a take of tap rows of Cin*Cout weights, and its
    input a take of pixel rows of Cin*B values, so the forward is one
    batched GEMM of [Ho*Wo, Cout, n] kernel windows with [Ho*Wo, n, B]
    input windows, n = Cin times the window's taps.  dx and dk are batched
    GEMMs into window rows, summed onto the input's pixels and the
    kernel's taps by _tap_sum, rows of Cin*B and Cin*Cout; dx is handed on
    as an NCHW view of [H, W, Cin, B].  The input windows stay live from
    the forward to the backward, 2.25x the input for that 4x4 case, and
    dx's window rows are as large: forward plus backward peak at 9.2x the
    input's bytes at B=64.
    """
    B, Cin, H, W, Cout, KH, KW = _conv_dims("conv2d", x, k, b)
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d: bad stride/padding ({stride}, {padding})")
    Ho, Wo = conv_output_size("conv2d", H, W, KH, KW, stride, padding)
    P = Ho * Wo
    windows = H * W <= KH * KW
    if windows:
        kidx, kinv, xidx, xinv = _window_plan(Cin, H, W, KH, KW, Ho, Wo, stride, padding)
        y = np.empty((Cout, P, B))
        if xidx is None:  # one GEMM against the batch-last input's rows
            n = Cin * H * W
            kf = k.data.reshape(Cout, Cin * KH * KW).take(kidx, axis=1).reshape(Cout * P, n)
            cols = x.data.transpose(1, 2, 3, 0).reshape(n, B)
            np.matmul(kf, cols, out=y.reshape(Cout * P, B))
        else:  # one GEMM per pixel on its window: rows of taps [Cin*Cout] and of pixels [Cin*B]
            n = kidx.size // P * Cin
            kf = _zero_row_below(k.data.transpose(2, 3, 1, 0), Cin * Cout).take(kidx, axis=0).reshape(P, n, Cout)
            cols = _zero_row_below(x.data.transpose(2, 3, 1, 0), Cin * B).take(xidx, axis=0).reshape(P, n, B)
            np.matmul(kf.transpose(0, 2, 1), cols, out=y.transpose(1, 0, 2))
    else:
        idx, inv = _tap_plan(Cin, H, W, KH, KW, Ho, Wo, stride, -padding, -padding)
        cols = _zero_row_below(x.data.transpose(1, 2, 3, 0), B).take(idx, axis=0).reshape(KH * KW * Cin, P * B)
        kf = k.data.transpose(0, 2, 3, 1).reshape(Cout, KH * KW * Cin)
        y = kf @ cols
    y = y.reshape(Cout, P * B)
    y += b.data[:, None]
    if not _recording.get():
        cols = None  # no backward will read them
    out, head = _head("conv2d", y.reshape(Cout, Ho, Wo, B), act, scale)

    def backward(g):
        g, grads = head(g)
        gm = g.transpose(1, 2, 3, 0).reshape(Cout, P * B)
        if x._track:
            if not windows:
                dx = _tap_sum(kf.T, gm, inv, B).reshape(Cin, H, W, B).transpose(3, 0, 1, 2)
            elif xidx is None:
                dx = (kf.T @ gm.reshape(Cout * P, B)).reshape(Cin, H, W, B).transpose(3, 0, 1, 2)
            else:  # each pixel's window rows, summed onto the input's pixels
                dx = _tap_sum(kf, gm.reshape(Cout, P, B).transpose(1, 0, 2), xinv, Cin * B)
                dx = dx.reshape(H, W, Cin, B).transpose(3, 2, 0, 1)
            grads.append((x, dx))
        if k._track:
            if not windows:
                dk = (gm @ cols.T).reshape(Cout, KH, KW, Cin).transpose(0, 3, 1, 2)
            elif xidx is None:  # [Cin*H*W, P*Cout], summed onto the kernel's elements
                gp = np.ascontiguousarray(gm.reshape(Cout, P, B).transpose(2, 1, 0)).reshape(B, P * Cout)
                dk = _tap_sum(cols, gp, kinv, Cout).T.reshape(Cout, Cin, KH, KW)
            else:  # each pixel's kernel window gradient [P, n, Cout], summed onto the kernel's taps
                gp = np.ascontiguousarray(gm.reshape(Cout, P, B).transpose(1, 2, 0))  # [P, B, Cout]
                dk = _tap_sum(cols, gp, kinv, Cin * Cout).reshape(KH, KW, Cin, Cout).transpose(3, 2, 0, 1)
            grads.append((k, dk))
        if b._track:
            grads.append((b, gm.sum(axis=1)))
        return grads

    return _make(out, (x, k, b) if scale is None else (x, k, b, *scale[1:]), backward)


def upconv2d(x: Tensor, k: Tensor, b: Tensor, upsample: int, padding: int, act: str = "linear", scale=None) -> Tensor:
    """conv2d(upsample_zero(x, upsample), k, b, 1, padding, ...), computed as a transposed conv.

    Only the real pixels are multiplied: pixel i sits at upsample*i of the
    upsampled grid, so tap a of the flipped kernel sends it to output row
    upsample*i + padding - (KH-1) + a (columns likewise).  That is conv2d
    mirrored, batch-last on one _tap_plan over the output: the forward is
    one GEMM of the flipped kernel, flattened as [Cin, KH*KW*Cout], into
    tap rows, summed onto the output's pixels through inv by _tap_sum,
    plus the bias; the backward is one take of the output gradient's rows
    through idx and two GEMMs, dx and dk.  The forward's scratch is the
    tap rows and two outputs, one sorted by tap count and one restored to
    pixel order.  Forward plus backward peak at 5.4x the output's bytes
    for a 4 -> 32 channel deconv (k3, u2), while the zero-inserted conv's
    input alone is upsample**2 times x.
    """
    B, Cin, H, W, Cout, KH, KW = _conv_dims("upconv2d", x, k, b)
    if upsample < 1 or padding < 0:
        raise ConfigError(f"upconv2d: bad upsample/padding ({upsample}, {padding})")
    Ho, Wo = conv_output_size("upconv2d", upsample * H, upsample * W, KH, KW, 1, padding)
    idx, inv = _tap_plan(Cout, Ho, Wo, KH, KW, H, W, upsample, padding - KH + 1, padding - KW + 1)
    xm = x.data.transpose(1, 2, 3, 0).reshape(Cin, H * W * B)
    kf = k.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(Cin, KH * KW * Cout)
    y = _tap_sum(kf.T, xm, inv, B).reshape(Cout, Ho * Wo * B)
    y += b.data[:, None]
    out, head = _head("upconv2d", y.reshape(Cout, Ho, Wo, B), act, scale)

    def backward(g):
        g, grads = head(g)
        cols = _zero_row_below(g.transpose(1, 2, 3, 0), B).take(idx, axis=0).reshape(KH * KW * Cout, H * W * B)
        if x._track:
            grads.append((x, (kf @ cols).reshape(Cin, H, W, B).transpose(3, 0, 1, 2)))
        if k._track:
            grads.append((k, (xm @ cols.T).reshape(Cin, KH, KW, Cout).transpose(3, 0, 1, 2)[:, :, ::-1, ::-1]))
        if b._track:
            grads.append((b, g.sum(axis=(0, 2, 3))))
        return grads

    return _make(out, (x, k, b) if scale is None else (x, k, b, *scale[1:]), backward)


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
